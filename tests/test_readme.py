"""The README's examples run: its ``python`` block executes, every
``lgsieve ...`` line of its CLI block parses, and each command runs at
the largest x its table gives and exits 2 one past it."""

import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

from lgsieve import cli, primes

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.S | re.M)


def test_python_block_runs(capsys):
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_cli_lines_parse():
    lines = [
        line
        for lang, body in BLOCKS
        if not lang
        for line in body.replace("\\\n", " ").splitlines()
        if line.startswith("lgsieve ")
    ]
    commands = {cli.parse_args(shlex.split(line)[1:]).command for line in lines}
    assert commands == set(cli._DISPATCH)  # every subcommand has an example


# The largest-x table, at ARRAY_BYTES_MAX / SCALE: a cap a·10^k − d set by
# the byte limit becomes a·10^(k−4) − d (5·10^3 is 5-smooth, as 5·10^7 is,
# so the FFT lengths scale alike); a row whose array is "none" keeps its cap.
SCALE = 10**4
_SUMS = "--delta 0.05 --gamma 0.2 --size-a 20 --size-b 20"
ROW_ARGS = {
    "build": "build --x {x} --delta 0.05 --out {d}/o.json",
    "verify": "verify --x {x} --delta 0.05",
    "coverage": "coverage --x {x} --delta 0.05",
    "dickman --x": "dickman --max-u 2 --x {x}",
    "build --set": "build --set {set} --out {d}/o.json",
    "verify --set": "verify --set {set}",
    "coverage --set": "coverage --set {set}",
    "theorem2": "theorem2 --x {x} --delta 0.05 --theta 0.5 --gamma 0.2",
    "sweep": "sweep --x {x} --theta 0.5:0.1:0.6 " + _SUMS,
    "sumset": "sumset --x {x} --theta 0.5 " + _SUMS,
    "sieve-check": "sieve-check --x {x} --delta 0.05 --size {x}",
}


def _set_file(x, d):
    """A hand-written one-member set at bound x; it is LG."""
    path = d / f"set{x}.json"
    path.write_text(json.dumps({"x": x, "delta": 0.1, "c": 1.0, "members": [2]}))
    return path


def _largest_x_rows():
    """(command labels, largest x, its array) of each row of the table."""
    table = README.split("The largest x each command allows:\n\n")[1].split("\n\n")[0]
    rows = [line.split(" | ") for line in table.strip().splitlines()[2:]]
    return [(re.findall(r"`([^`]+)`", cmds), cap, array) for cmds, cap, array in rows]


def _scaled_cap(cap, array):
    m = re.fullmatch(r"(?:([\d.]+)·)?(\d+)\^(\d+)(?: − (\d+))?", cap)
    assert m, cap
    mantissa, base, exponent, minus = m.groups()
    value = Fraction(mantissa or 1) * int(base) ** int(exponent)
    value /= 1 if array.startswith("none") else SCALE
    assert value.denominator == 1, cap
    return int(value) - int(minus or 0)


def test_largest_x_table_holds_at_a_scaled_byte_limit(monkeypatch, tmp_path, capsys):
    rows = _largest_x_rows()
    assert {label for labels, _, _ in rows for label in labels} == ROW_ARGS.keys()
    monkeypatch.setattr(primes, "ARRAY_BYTES_MAX", primes.ARRAY_BYTES_MAX // SCALE)
    for labels, cap, array in rows:
        x = _scaled_cap(cap.strip(), array)
        for label in labels:
            for arg_x, expected in ((x, 0), (x + 1, 2)):
                args = ROW_ARGS[label].format(x=arg_x, d=tmp_path, set=_set_file(arg_x, tmp_path))
                assert (label, arg_x, cli.main(args.split())) == (label, arg_x, expected)
    capsys.readouterr()
