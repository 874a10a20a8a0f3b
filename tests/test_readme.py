"""The README's examples run: its ``python`` block executes, and every
``lgsieve ...`` line of its CLI block parses."""

import re
import shlex
from pathlib import Path

from lgsieve import cli

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
