"""README examples run as written: every `spincat` line of its bash blocks,
with the point.cfg example on disk, and the Python quick start."""
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from spincat.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


def _cli_examples() -> list[str]:
    lines = [line.strip() for block in _blocks("bash") for line in block.splitlines()]
    return [line for line in lines if line.startswith("spincat ")]


def test_the_readme_has_examples_of_every_subcommand():
    commands = {shlex.split(line, comments=True)[1] for line in _cli_examples()}
    assert commands == {"crb", "verify", "scan", "find-hl"}


@pytest.mark.parametrize("line", _cli_examples())
def test_readme_cli_example_exits_zero(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (config,) = (block for block in _blocks("ini") if block.startswith("# point.cfg\n"))
    (tmp_path / "point.cfg").write_text(config, encoding="utf-8")
    argv = shlex.split(line, comments=True)[1:]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.err == ""


def test_readme_python_examples_print_the_quoted_values():
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in _blocks("python"):
            exec(compile(block, "README.md", "exec"), namespace)
    qfi, crb = out.getvalue().split()
    assert qfi.startswith("3.6216") and crb.startswith("0.52547")
    assert namespace["qfi"].shape == (201, 201)
