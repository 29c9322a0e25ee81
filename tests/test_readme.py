"""The README's examples run against the package as it is."""

import re
import shlex
from pathlib import Path

from equivote.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.M | re.S)


def test_every_python_example_in_the_readme_runs():
    blocks = _blocks("python")
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_every_equivote_command_in_the_readme_exits_zero(
    capsys, monkeypatch, tmp_path
):
    # in order, in one directory, since later examples read the rules earlier
    # ones write
    commands = [
        shlex.split(line, comments=True)
        for block in _blocks("sh")
        for line in block.splitlines()
        if line.startswith("equivote ")
    ]
    assert len(commands) >= 10
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        rc = main(argv[1:])
        out, err = capsys.readouterr()
        assert rc == 0, (argv, out, err)
