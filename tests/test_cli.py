import contextlib
import hashlib
import io
import json
import math

import pytest

from lgsieve import LGParams, build_prime_table, choose_cutoff, construct, load_json
from lgsieve.cli import main, parse_args


def run_cli(*argv):
    return main(list(argv))


def test_parse_build():
    args = parse_args(["build", "--x", "100000", "--delta", "0.05", "--out", "set.json"])
    assert args.command == "build"
    assert args.x == 100000 and args.delta == 0.05


def test_parse_sumset():
    args = parse_args(
        "sumset --x 100000 --delta 0.05 --theta 0.5 --gamma 0.1 "
        "--size-a 5000 --size-b 5000 --seed 7".split()
    )
    assert args.command == "sumset" and args.seed == 7


def test_parse_bad_delta():
    with pytest.raises(SystemExit) as exc:
        parse_args(["build", "--delta", "1.5", "--x", "100", "--out", "s.json"])
    assert exc.value.code == 2


def test_parse_missing_params():
    with pytest.raises(SystemExit) as exc:
        parse_args(["verify"])
    assert exc.value.code == 2


def test_build_verify_roundtrip(tmp_path):
    path = tmp_path / "set.json"
    assert run_cli("build", "--x", "1000", "--delta", "0.1", "--out", str(path)) == 0
    loaded = load_json(path)
    table = build_prime_table(1000)
    expected = construct(LGParams(1000, 0.1), table)
    assert loaded.members == expected.members
    assert loaded.params.c == choose_cutoff(expected, 0.2)
    assert run_cli("verify", "--set", str(path)) == 0


def test_verify_detects_violation(tmp_path):
    path = tmp_path / "set.json"
    doc = {"x": 100, "delta": 0.2, "c": 1.0, "members": [11, 55]}
    path.write_text(json.dumps(doc))
    assert run_cli("verify", "--set", str(path)) == 1


_GOOD_SET = {"x": 100, "delta": 0.2, "c": 1.0, "members": [11, 13]}


@pytest.mark.parametrize(
    "doc",
    [
        {**_GOOD_SET, "members": [11, True]},  # bool
        {**_GOOD_SET, "members": [11, 13.0]},  # float
        {**_GOOD_SET, "members": [11, "13"]},  # string
        {**_GOOD_SET, "members": [11, 13, 13]},  # duplicate
        {**_GOOD_SET, "members": [11, -13]},  # negative
        {**_GOOD_SET, "members": [1, 13]},  # below 2
        {**_GOOD_SET, "members": [11, 101]},  # above x
        {**_GOOD_SET, "members": 11},  # not a list
        {**_GOOD_SET, "x": 100.0},  # float bound
        {**_GOOD_SET, "delta": "0.2"},  # string exponent
        {k: v for k, v in _GOOD_SET.items() if k != "c"},  # key missing
    ],
)
def test_load_rejects_bad_set_file(tmp_path, doc):
    path = tmp_path / "set.json"
    path.write_text(json.dumps(doc))
    assert run_cli("verify", "--set", str(path)) == 2


def test_coverage_on_overlapping_set(tmp_path, capsys):
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"x": 100, "delta": 0.2, "c": 1.0, "members": [11, 55]}))
    assert run_cli("coverage", "--set", str(path)) == 2
    assert "lgsieve verify" in capsys.readouterr().err


def test_sumset_lg_at_2x_with_set_file(tmp_path, capsys):
    path = tmp_path / "set.json"
    path.write_text(json.dumps(_GOOD_SET))
    code = run_cli(
        "sumset", "--set", str(path), "--lg-at-2x", "--theta", "0.5",
        "--gamma", "0.2", "--size-a", "3", "--size-b", "3",
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("lgsieve: --lg-at-2x")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["theorem2", "--x", "1000", "--delta", "0.1", "--theta", "0.1", "--gamma", "0.2"],
         "theta 0.1 outside (0.1, 1]"),
        (["sumset", "--x", "1000", "--delta", "0.1", "--theta", "0.05", "--gamma", "0.2",
          "--size-a", "10", "--size-b", "10"], "theta 0.05 outside (0.1, 1]"),
        (["dickman", "--step", "0"], "step out of (0,1)"),
        (["dickman", "--step", "1"], "step out of (0,1)"),
        (["dickman", "--max-u", "0.5"], "max_u must be >= 1"),
        (["coverage", "--x", "100", "--delta", "0.2", "--c", "0.2"], "need 0 < delta < c <= 1"),
    ],
)
def test_range_errors_exit_2(capsys, argv, message):
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.startswith(f"lgsieve: {message}")


def test_coverage_csv(tmp_path):
    out = tmp_path / "cov.csv"
    assert run_cli(
        "coverage", "--x", "100", "--delta", "0.2", "--c", "1.0", "--out", str(out)
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,delta,cutoff,covered,exceptional,harmonic_sum,epsilon_prime"
    fields = lines[1].split(",")
    assert fields[0] == "100"
    assert int(fields[3]) + int(fields[4]) == 100


def test_dickman_csv_rho2(tmp_path):
    out = tmp_path / "rho.csv"
    assert run_cli("dickman", "--max-u", "4", "--step", "0.001", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "u,rho,empirical_rho,x"
    best = min(lines[1:], key=lambda l: abs(float(l.split(",")[0]) - 2.0))
    u, r = (float(v) for v in best.split(",")[:2])
    assert abs(u - 2.0) < 1e-9
    assert abs(r - (1 - math.log(2))) < 1e-6


def test_dickman_with_empirical(tmp_path):
    out = tmp_path / "rho.csv"
    assert run_cli(
        "dickman", "--max-u", "2", "--step", "0.25", "--x", "10000", "--out", str(out)
    ) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
    by_u = {float(r[0]): r for r in rows}
    assert by_u[1.0][2] != "" and float(by_u[1.0][2]) == 1.0
    assert by_u[0.5][2] == ""  # empirical density undefined below u = 1


def test_sweep_row_count(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli(
        "sweep", "--x", "2000", "--delta", "0.1", "--theta", "0.3:0.1:0.9",
        "--gamma", "0.2", "--size-a", "100", "--size-b", "100", "--out", str(out)
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("x,delta,c,theta,")
    assert len(lines) == 1 + 7  # one row per theta grid point


def test_sumset_deterministic(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert run_cli(
            "sumset", "--x", "2000", "--delta", "0.1", "--theta", "0.5",
            "--gamma", "0.2", "--size-a", "150", "--size-b", "150",
            "--seed", "9", "--out", str(out)
        ) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_sieve_check_csv(tmp_path):
    out = tmp_path / "var.csv"
    assert run_cli(
        "sieve-check", "--x", "1000", "--delta", "0.1", "--c", "1.0",
        "--size", "100", "--seed", "3", "--out", str(out)
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "q,sum_sq,contribution"
    assert lines[-1].startswith("total,")


def test_theorem2_json(tmp_path):
    out = tmp_path / "t2.json"
    assert run_cli(
        "theorem2", "--x", "1000", "--delta", "0.1", "--c", "1.0",
        "--theta", "0.5", "--gamma", "0.2", "--weights", "uniform",
        "--out", str(out)
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["sigma"] == 1000
    assert isinstance(doc["report"]["conclusion_holds"], bool)


def test_out_path_unwritable(tmp_path):
    assert run_cli(
        "coverage", "--x", "100", "--delta", "0.2",
        "--out", str(tmp_path / "no" / "such" / "dir.csv")
    ) == 3


def test_table_limit_env(tmp_path, monkeypatch):
    monkeypatch.setenv("LGSIEVE_TABLE_LIMIT", "50")
    assert run_cli(
        "verify", "--x", "100", "--delta", "0.2"
    ) == 2  # resource error surfaces as a usage-level failure


_SET = ["--x", "10000", "--delta", "0.05"]
_T3 = ["--theta", "0.5", "--gamma", "0.2"]
_SIEVE = ["sieve-check", *_SET, "--size", "2000", "--seed", "3"]
_WEIGHTS = ("uniform", "random-dense", "random-sparse", "indicator")

# (argv, exit code, SHA-256 of the output file, or of stdout when argv
# has no --out).  Refactors keep these outputs byte-identical; a change
# here is a change of output and needs a reason.
OUTPUT_HASHES = {
    "build": (["build", *_SET, "--out", "{out}"], 0,
              "93352c46fb70fe059938ccf9b1f088cf7cb54a677a9cb8aad127088d038d37a3"),
    "verify": (["verify", *_SET], 0,
               "2f91034a24bd8418cf1073fdc190d0b5a7cd7d1c329633bf7012944332b19311"),
    "coverage": (["coverage", *_SET, "--out", "{out}"], 0,
                 "cd484322d84289837500ddb4e9231cf5d876df19964b70db990fa83197dd256d"),
    "sieve-check-1": ([*_SIEVE, "--out", "{out}"], 0,
                      "9814692ed0c8c53bd234dea3dcabc90c7ad3d40e87e95851c75480af49e0116b"),
    "sieve-check-3": ([*_SIEVE, "--trials", "3", "--out", "{out}"], 0,
                      "23fb2d21568ab81f973faf4fad3d5e06a0c44bbc61b0b1cc2d2d2c40c79aa370"),
    **{
        f"theorem2-{w}": (
            ["theorem2", *_SET, *_T3, "--weights", w, "--seed", "5", "--out", "{out}"], 0, h)
        for w, h in zip(_WEIGHTS, (
            "4ab46034a91bcba1b82f8d9effee8b5c5eaa20e10e4456f58f7d2632728b52c1",
            "f042a3fa4dc2d7d00be10cfbf1462a1118af6d4dd87fde623dbab96425e84553",
            "9f276b4b23be6e1e7e5691ded7fa6fd53b01ab78a12932ce64d2e4a0ff441b92",
            "a8038269ae97a44d3416dd2eea1c070f92c5e6b3dfe03e3b27edb6e5e381dbbf",
        ))
    },
    "sumset": (["sumset", *_SET, *_T3, "--size-a", "500", "--size-b", "500", "--seed", "7",
                "--out", "{out}"], 0,
               "c5762cffeb8040ad80fd61bb3e1bb809d92690bc0c51712d4f35484378dd1802"),
    "sweep": (["sweep", *_SET, "--theta", "0.3:0.2:0.9", "--gamma", "0.2", "--size-a", "300",
               "--size-b", "300", "--seed", "7", "--out", "{out}"], 0,
              "26213a2e47c740873d961b97878bd39348754fd5de7ab7baa8200cb34e7a9207"),
    # theta = 0.05 = delta and 1.05, 1.3 > 1 are skipped
    "sweep-theta-outside": (["sweep", *_SET, "--theta", "0.05:0.25:1.3", "--gamma", "0.2",
                             "--size-a", "300", "--size-b", "300", "--seed", "7",
                             "--out", "{out}"], 0,
                            "b653e8563560d7b2724d458daa61c2cc259fc1a2b09e07b6401ea646b99f44b4"),
    "sumset-lg-at-2x": (["sumset", *_SET, *_T3, "--size-a", "300", "--size-b", "300",
                         "--seed", "7", "--lg-at-2x", "--out", "{out}"], 0,
                        "2ecd00f5029050bae6ad431349c4a224cd8adaaca31d9c977157bc995495329a"),
}


@pytest.mark.parametrize("name", sorted(OUTPUT_HASHES))
def test_output_bytes_unchanged(tmp_path, name):
    argv, code, digest = OUTPUT_HASHES[name]
    out = tmp_path / "out"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert run_cli(*(a.format(out=out) for a in argv)) == code
    data = out.read_bytes() if "{out}" in argv else stdout.getvalue().encode()
    assert hashlib.sha256(data).hexdigest() == digest
