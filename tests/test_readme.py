"""The README's Quick start and Command line blocks run against the current code."""

import os
import re
import shlex

from cmvpencil import cli

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _readme():
    with open(README, encoding="utf-8") as handle:
        return handle.read()


def test_quick_start_block_runs():
    blocks = re.findall(r"^## Quick start\n\n```python\n(.*?)^```", _readme(), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md Quick start", "exec"), {})


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^## Command line\n\n```sh\n(.*?)^```", _readme(), re.S | re.M)
    assert len(blocks) == 1
    lines = [line for line in blocks[0].splitlines() if line.startswith("cmvpencil ")]
    commands = [shlex.split(line) for line in lines]
    assert len(commands) >= 3
    monkeypatch.setenv("CMVPENCIL_OUTDIR", str(tmp_path))
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
        capsys.readouterr()
