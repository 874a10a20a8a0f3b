import contextlib
import hashlib
import io
import json
import math
import random
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lgsieve import LGParams, build_prime_table, choose_cutoff, construct, load_json
from lgsieve import cli, primes
from lgsieve.cli import main, parse_args
from lg_samples import random_lg_set, upper_half_set


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


_SWEEP = ["sweep", "--x", "100", "--delta", "0.2", "--gamma", "0.2", "--size-a", "5",
          "--size-b", "5", "--theta"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["build", "--x", "0", "--delta", "0.05", "--out", "s.json"],
         "argument --x: expected a positive integer, got 0"),
        (["coverage", "--x", "100", "--delta", "0.2", "--c", "1.5"],
         "argument --c: expected a value in (0,1], got 1.5"),
        ([*_SWEEP, "0.5:0:0.9"], "argument --theta: bad sweep range 0.5:0:0.9"),
        ([*_SWEEP, "1:2"], "argument --theta: expected start:step:end, got 1:2"),
        ([*_SWEEP, "0.9:0.1:0.5"], "argument --theta: bad sweep range 0.9:0.1:0.5"),
        ([*_SWEEP, "0.3:0.1:inf"], "argument --theta: bad sweep range 0.3:0.1:inf"),
        ([*_SWEEP, "nan:0.1:0.9"], "argument --theta: bad sweep range nan:0.1:0.9"),
        ([*_SWEEP, "0.3:nan:0.9"], "argument --theta: bad sweep range 0.3:nan:0.9"),
        ([*_SWEEP, "0.3:1e-300:0.9"],
         "argument --theta: sweep range 0.3:1e-300:0.9 has more than 10^4 points"),
        ([*_SWEEP, "0:1e-4:1"], "argument --theta: sweep range 0:1e-4:1 has more than 10^4 points"),
    ],
)
def test_parse_rejects_bad_values(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        parse_args(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


def _accumulated_grid(start, step, end):
    # the accumulating loop that sweep grids have always used
    out, v = [], start
    while v <= end + 1e-9:
        out.append(round(v, 10))
        v += step
    return out


@settings(max_examples=200, deadline=None)
@given(
    start=st.floats(min_value=0, max_value=2),
    step=st.floats(min_value=1e-3, max_value=1),
    span=st.floats(min_value=0, max_value=3),
)
def test_sweep_grid_values_unchanged_property(start, step, span):
    spec = f"{start!r}:{step!r}:{start + span!r}"
    assert parse_args([*_SWEEP, spec]).theta == _accumulated_grid(start, step, start + span)


def test_sweep_grid_limits():
    assert len(parse_args([*_SWEEP, "0:1e-4:0.99999"]).theta) == 10**4
    # v + step == v above 4096: the grid ends instead of looping forever
    assert len(parse_args([*_SWEEP, "4096:1.5e-13:4096"]).theta) <= 10**4 + 1


_SET_OPTIONS = "-h --help --set --x --delta --c --epsilon"
_SUMSET_OPTIONS = "--theta --gamma --size-a --size-b --seed --out"
OPTIONS = {
    "build": f"{_SET_OPTIONS} --out",
    "verify": _SET_OPTIONS,
    "coverage": f"{_SET_OPTIONS} --cutoff --out",
    "dickman": "-h --help --max-u --step --x --emit-every --out",
    "sieve-check": f"{_SET_OPTIONS} --size --seed --trials --out",
    "theorem2": f"{_SET_OPTIONS} --theta --gamma --weights --seed --out",
    "sumset": f"{_SET_OPTIONS} {_SUMSET_OPTIONS}",
    "sweep": f"{_SET_OPTIONS} {_SUMSET_OPTIONS}",
}


def test_options_are_the_listed_ones(capsys):
    # an option added to (or dropped from) the CLI must be written here too
    assert OPTIONS.keys() == cli._DISPATCH.keys()
    for command, options in OPTIONS.items():
        with pytest.raises(SystemExit) as exc:
            parse_args([command, "-h"])
        assert exc.value.code == 0
        found = re.findall(r"(?<![\w-])(--?[a-z][\w-]*)", capsys.readouterr().out)
        assert (command, set(found)) == (command, set(options.split()))


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


def test_load_rejects_x_beyond_int32(tmp_path, capsys):
    # rejected by LGParams before any array of x + 1 entries exists
    path = tmp_path / "set.json"
    path.write_text(json.dumps({**_GOOD_SET, "x": 2**31, "members": [2**31 - 1, 2**31]}))
    assert run_cli("verify", "--set", str(path)) == 2
    assert capsys.readouterr().err.startswith("lgsieve: x must be in [4, 2147483647]")


def test_build_from_set_writes_ten_digit_members(tmp_path, capsys):
    # build --set is the one command path to 10-digit members: build alone
    # stops at x = 10^8 - 1; the members span every width from 1 to 10 digits
    members = [2, *(e for k in range(1, 10) for e in (10**k - 1, 10**k)), 2**31 - 1]
    doc = {"x": 2**31 - 1, "delta": 0.05, "c": 0.93, "members": members}
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(json.dumps(doc))  # one line, so the output is no copy of it
    assert run_cli("build", "--set", str(src), "--out", str(out)) == 0
    assert out.read_bytes() == (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
    assert f"members={len(members)}" in capsys.readouterr().out


def test_coverage_on_overlapping_set(tmp_path, capsys):
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"x": 100, "delta": 0.2, "c": 1.0, "members": [11, 55]}))
    assert run_cli("coverage", "--set", str(path)) == 2
    assert "lgsieve verify" in capsys.readouterr().err


_SET_COMMANDS = {
    "build": ["--out", "o.json"],
    "verify": [],
    "coverage": [],
    "sieve-check": ["--size", "20"],
    "theorem2": ["--theta", "0.5", "--gamma", "0.2"],
    "sumset": ["--theta", "0.5", "--gamma", "0.2", "--size-a", "5", "--size-b", "5"],
    "sweep": ["--theta", "0.3:0.2:0.9", "--gamma", "0.2", "--size-a", "5", "--size-b", "5"],
}


@pytest.mark.parametrize("command", sorted(_SET_COMMANDS))
@pytest.mark.parametrize("flag", [["--x", "50"], ["--delta", "0.9"]], ids=lambda f: f[0])
def test_set_rejects_x_and_delta(capsys, command, flag):
    # a --set file fixes x and delta; a flag that would be ignored is an error
    argv = [command, "--set", "s.json", *flag, *_SET_COMMANDS[command]]
    with pytest.raises(SystemExit) as exc:
        parse_args(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: {command}: --set takes neither --x nor --delta\n"
    )


@pytest.mark.parametrize("command", sorted(_SET_COMMANDS))
@pytest.mark.parametrize(
    "source", [["--set", "s.json"], ["--x", "50", "--delta", "0.1", "--c", "0.9"]],
    ids=["set", "c"],
)
def test_epsilon_rejected_where_c_is_given(capsys, command, source):
    # --epsilon chooses c for a built set; a --set file or --c fixes c,
    # and an --epsilon beside either would be ignored
    argv = [command, *source, "--epsilon", "0.01", *_SET_COMMANDS[command]]
    with pytest.raises(SystemExit) as exc:
        parse_args(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: {command}: --epsilon chooses c, so it takes neither --set nor --c\n"
    )
    parse_args([command, *source, *_SET_COMMANDS[command]])  # either source alone is fine


def test_epsilon_defaults_to_one_fifth(capsys):
    base = ["coverage", "--x", "3000", "--delta", "0.1"]
    assert parse_args(base).epsilon is None
    assert run_cli(*base) == 0
    default = capsys.readouterr().out
    assert run_cli(*base, "--epsilon", "0.2") == 0
    assert capsys.readouterr().out == default
    assert run_cli(*base, "--epsilon", "0.01") == 0
    assert capsys.readouterr().out != default


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
        (["dickman", "--max-u", "inf"], "max_u must be >= 1 and finite, got inf"),
        (["dickman", "--max-u", "nan"], "max_u must be >= 1 and finite, got nan"),
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


def test_coverage_of_loaded_set_with_c(tmp_path):
    # --c on a loaded set replaces its cutoff, as --c does on a built one
    path, loaded, built = (tmp_path / n for n in ("set.json", "loaded.csv", "built.csv"))
    assert run_cli("build", "--x", "10000", "--delta", "0.05", "--out", str(path)) == 0
    assert load_json(path).params.c != 0.6
    assert run_cli("coverage", "--set", str(path), "--c", "0.6", "--out", str(loaded)) == 0
    assert run_cli(
        "coverage", "--x", "10000", "--delta", "0.05", "--c", "0.6", "--out", str(built)
    ) == 0
    assert loaded.read_text() == built.read_text()
    assert loaded.read_text().splitlines()[1].split(",")[2] == "0.6"


def test_csv_to_stdout_without_out(tmp_path, capsys):
    out = tmp_path / "cov.csv"
    argv = ["coverage", "--x", "10000", "--delta", "0.05"]
    assert run_cli(*argv, "--out", str(out)) == 0
    assert capsys.readouterr().out == ""
    assert run_cli(*argv) == 0
    assert capsys.readouterr().out == out.read_text()


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


def test_dickman_at_x_one(tmp_path):
    # Psi(1, y) = 1 for every y, so each row with u >= 1 reads 1.0
    out = tmp_path / "rho.csv"
    assert run_cli(
        "dickman", "--max-u", "1.5", "--step", "0.25", "--x", "1", "--out", str(out)
    ) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
    assert [r[0] for r in rows] == ["0.0", "0.25", "0.5", "0.75", "1.0", "1.25", "1.5"]
    assert all(r[3] == "1" for r in rows)
    assert [r[2] for r in rows] == ["", "", "", "", "1.0", "1.0", "1.0"]


def test_sweep_row_count(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli(
        "sweep", "--x", "2000", "--delta", "0.1", "--theta", "0.3:0.1:0.9",
        "--gamma", "0.2", "--size-a", "100", "--size-b", "100", "--out", str(out)
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("x,delta,c,theta,")
    assert len(lines) == 1 + 7  # one row per theta grid point


def test_sweep_theta_zero_is_skipped(tmp_path):
    # theta = 0 <= delta is skipped and must not size the rho table
    rows = {}
    for spec in ("0:0.25:1", "0.25:0.25:1"):
        out = tmp_path / f"{spec}.csv"
        assert run_cli(
            "sweep", "--x", "2000", "--delta", "0.1", "--theta", spec, "--gamma", "0.2",
            "--size-a", "50", "--size-b", "50", "--out", str(out)
        ) == 0
        rows[spec] = out.read_text().splitlines()
    assert rows["0:0.25:1"] == rows["0.25:0.25:1"]
    assert len(rows["0:0.25:1"]) == 1 + 4


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


@pytest.mark.parametrize(
    "argv",
    [["coverage"], ["build"], ["sieve-check", "--size", "20"]],
    ids=lambda argv: argv[0],
)
def test_out_path_unwritable(tmp_path, capsys, argv):
    assert run_cli(
        *argv, "--x", "100", "--delta", "0.2",
        "--out", str(tmp_path / "no" / "such" / "dir.out")
    ) == 3
    assert capsys.readouterr().err.startswith("lgsieve:")


def test_table_over_byte_limit_exits_2(tmp_path, monkeypatch, capsys):
    path = tmp_path / "set.json"
    assert run_cli("build", "--x", "100", "--delta", "0.2", "--out", str(path)) == 0
    capsys.readouterr()
    monkeypatch.setattr(primes, "ARRAY_BYTES_MAX", 4 * 100)  # x = 100 needs 101 entries
    assert run_cli(
        "verify", "--x", "100", "--delta", "0.2"
    ) == 2  # resource error surfaces as a usage-level failure
    assert capsys.readouterr().err == (
        "lgsieve: the prime table needs 404 bytes; the limit is 400\n"
    )
    # a loaded set builds no table, but verify still builds its divisor map
    assert run_cli("verify", "--set", str(path)) == 2
    assert capsys.readouterr().err == (
        "lgsieve: the divisor map needs 404 bytes; the limit is 400\n"
    )


@pytest.mark.parametrize("command", ["verify", "build", "coverage", "sieve-check"])
def test_loaded_set_builds_no_table(tmp_path, monkeypatch, command):
    # these commands never read a prime table, so a loaded set gets none
    path, copy = tmp_path / "set.json", tmp_path / "copy.json"
    assert run_cli("build", "--x", "100", "--delta", "0.2", "--out", str(path)) == 0
    limits, inner = [], cli.build_prime_table
    monkeypatch.setattr(cli, "build_prime_table", lambda n: limits.append(n) or inner(n))
    extra = ["--out", str(copy)] if command == "build" else _SET_COMMANDS[command]
    assert run_cli(command, "--set", str(path), *extra) == 0
    assert command != "build" or load_json(copy) == load_json(path)
    assert limits == []
    for reader in ("theorem2", "sumset", "sweep"):  # their partitions read the table
        limits.clear()
        assert run_cli(reader, "--set", str(path), *_SET_COMMANDS[reader]) == 0
        assert limits == [100]


_ROUGH_SET = {"x": 1000, "delta": 0.1, "c": 1.0, "members": [2]}


def test_set_with_a_rough_multiple_of_a_smooth_member_exits_2(tmp_path, capsys):
    # {2} is LG, but at theta = 0.5 the smooth member 2 has the multiple
    # 2 * 37 <= 1000, which is not 1000^0.5-smooth: the sieve's premise fails
    path = tmp_path / "set.json"
    path.write_text(json.dumps(_ROUGH_SET))
    for command in ("theorem2", "sumset", "sweep"):
        assert run_cli(command, "--set", str(path), *_SET_COMMANDS[command]) == 2
        assert capsys.readouterr().err == (
            "lgsieve: smooth member 2 has a multiple <= x = 1000 that is not x^theta-smooth\n"
        )
    assert run_cli("verify", "--set", str(path)) == 0


@st.composite
def _loaded_set_docs(draw):
    """Set files at x <= 1000: random LG subsets, upper-half sets, and
    small one- or two-member sets, which need not be LG."""
    x = draw(st.integers(min_value=4, max_value=1000))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    shape = draw(st.sampled_from(["random", "upper-half", "small"]))
    if shape == "random":
        members = random_lg_set(x, rng, build_prime_table(x)).members
    elif shape == "upper-half":
        members = upper_half_set(x).members
    else:  # log-uniform, so that small members with many multiples are common
        members = sorted({max(2, int(x ** rng.random())) for _ in range(rng.randint(1, 2))})
    return {"x": x, "delta": 0.1, "c": draw(st.sampled_from([0.5, 1.0])), "members": members}


@settings(max_examples=100, deadline=None)
@given(doc=_loaded_set_docs())
@example(doc=_ROUGH_SET)
def test_loaded_sets_exit_with_a_code_and_never_raise(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("set") / "set.json"
    path.write_text(json.dumps(doc))
    for command in ("theorem2", "sumset", "sweep", "sieve-check", "coverage", "verify"):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = run_cli(command, "--set", str(path), *_SET_COMMANDS[command])
        # 1 is a verification failure: pairs with lcm <= x, or a bound that fails
        assert code in ({0, 1, 2} if command in ("verify", "sieve-check") else {0, 2}), command


def test_loaded_set_over_byte_limit_exits_2_before_allocating(tmp_path, capsys):
    # a --set file builds no table, so the divisor map's own check stops
    # x = 2*10^9 before its 8 GB of int32 entries are allocated
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"x": 2 * 10**9, "delta": 0.1, "c": 0.5, "members": [2]}))
    tracemalloc.start()
    try:
        assert run_cli("verify", "--set", str(path)) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert capsys.readouterr().err == (
        "lgsieve: the divisor map needs 8000000004 bytes; the limit is 400000000\n"
    )


def test_theorem2_weights_over_byte_limit_exit_2(monkeypatch, capsys):
    # at x = 100 the table and the divisor map take 404 bytes, the weights 808
    monkeypatch.setattr(primes, "ARRAY_BYTES_MAX", 8 * 101 - 1)
    argv = ["theorem2", "--x", "100", "--delta", "0.2", "--theta", "0.5", "--gamma", "0.2"]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == (
        "lgsieve: the weight array needs 808 bytes; the limit is 807\n"
    )
    monkeypatch.setattr(primes, "ARRAY_BYTES_MAX", 8 * 101)
    assert run_cli(*argv) == 0


@pytest.mark.parametrize(
    "argv, size",
    [
        (["--step", "1e-320"], "inf"),  # max_u / step overflows a float
        (["--max-u", "1e300", "--step", "1e-300"], "inf"),
        (["--max-u", "1e300"], "8.192e+303"),
        (["--max-u", "1000000"], "8192000008"),
    ],
)
def test_dickman_table_over_byte_limit_exits_2(capsys, argv, size):
    assert run_cli("dickman", *argv) == 2
    assert capsys.readouterr().err == (
        f"lgsieve: the rho table needs {size} bytes; the limit is 400000000\n"
    )


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
    # 12,456 members: more than one block of save_json
    "build-1e5": (["build", "--x", "100000", "--delta", "0.05", "--out", "{out}"], 0,
                  "abc39df882e03dc0cf97b3e50d74c93f35ec76e3514897a82d7bfa60e6128de7"),
    "verify": (["verify", *_SET], 0,
               "2f91034a24bd8418cf1073fdc190d0b5a7cd7d1c329633bf7012944332b19311"),
    "coverage": (["coverage", *_SET, "--out", "{out}"], 0,
                 "cd484322d84289837500ddb4e9231cf5d876df19964b70db990fa83197dd256d"),
    "sieve-check-1": ([*_SIEVE, "--out", "{out}"], 0,
                      "9814692ed0c8c53bd234dea3dcabc90c7ad3d40e87e95851c75480af49e0116b"),
    "sieve-check-3": ([*_SIEVE, "--trials", "3", "--out", "{out}"], 0,
                      "23fb2d21568ab81f973faf4fad3d5e06a0c44bbc61b0b1cc2d2d2c40c79aa370"),
    # |C|^2 > 2^31 - 1: the contributions divide it by the int32 moduli
    "sieve-check-50000": (["sieve-check", "--x", "100000", "--delta", "0.05", "--size", "50000",
                           "--seed", "3", "--out", "{out}"], 0,
                          "0d161f87485ac96ba6a971b512b2762cab016ba43f2453eeab0d7eb0a3b34cf6"),
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
    # A, B from [1, 10^4], so a sumset over all of [1, x] at x = 10^4
    "sumset-2e4": (["sumset", "--x", "20000", "--delta", "0.05", *_T3, "--size-a", "300",
                    "--size-b", "300", "--seed", "7", "--out", "{out}"], 0,
                   "2ecd00f5029050bae6ad431349c4a224cd8adaaca31d9c977157bc995495329a"),
    "dickman-x": (["dickman", "--max-u", "4", "--step", "0.01", "--x", "100000",
                   "--out", "{out}"], 0,
                  "44246b03efdcb680b4985e9dcb4f8bfd409e2d8683469d06086a5df7f89c753d"),
    "dickman-x2": (["dickman", "--max-u", "1.5", "--step", "0.25", "--x", "2",
                    "--out", "{out}"], 0,
                   "fe9b4d42fc368dbf0b00d3bfb5d7001b1c635c5b39bd6c435a6f3ca7569ffdf2"),
    "dickman-emit-every": (["dickman", "--max-u", "6", "--x", "97", "--emit-every", "7",
                            "--out", "{out}"], 0,
                           "14cc2212c1c65ce1b979479d35f21731af6696e620ae55b14ae3e2c6180f6368"),
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
