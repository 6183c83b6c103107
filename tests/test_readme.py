"""The README's command-line examples parse in bash and run successfully."""

import re
import shlex
import subprocess
from pathlib import Path

import pytest

from curvlab.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[str]:
    """Every ``curvlab`` line inside the README's ``sh`` code blocks."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    return [
        line.strip()
        for block in blocks
        for line in block.splitlines()
        if line.strip().startswith("curvlab ")
    ]


def test_readme_has_examples():
    assert len(readme_commands()) >= 5


@pytest.mark.parametrize("line", readme_commands())
def test_example_runs(line, capsys):
    syntax = subprocess.run(["bash", "-n"], input=line, capture_output=True, text=True)
    assert syntax.returncode == 0, syntax.stderr
    code = main(shlex.split(line)[1:])
    captured = capsys.readouterr()
    assert code == 0, captured.err
