"""The examples in README.md run and print what it shows."""

import json
import re
import shlex
from pathlib import Path

import pytest

from probstruct import coats_ds, to_json
from probstruct.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced(lang: str) -> list[str]:
    """The text of every fenced block of ``lang`` in README.md, in order."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.M | re.S)


def sessions() -> list[list[tuple[list[str], list[str]]]]:
    """Per shell block: each ``$ probstruct`` command's arguments and the
    lines shown after it."""
    found = []
    for block in fenced("sh"):
        steps = []
        for line in block.splitlines():
            if line.startswith("$ probstruct "):
                steps.append((shlex.split(line[len("$ probstruct "):]), []))
            elif steps:
                steps[-1][1].append(line)
        if steps:
            found.append(steps)
    return found


def test_readme_has_the_examples():
    assert len(sessions()) == 2
    assert len(fenced("python")) == 1
    assert len(fenced("json")) == 1


@pytest.mark.parametrize("steps", sessions(), ids=lambda steps: "-".join(argv[0] for argv, _ in steps))
def test_readme_shell_sessions(steps, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv, shown in steps:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out.splitlines() == shown, argv


def test_readme_python_example_prints_its_comments(capsys):
    (block,) = fenced("python")
    shown = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    exec(block, {})
    assert capsys.readouterr().out.splitlines() == shown


def test_readme_json_example_is_the_coats_ds_document():
    (block,) = fenced("json")
    assert json.loads(block) == json.loads(to_json(coats_ds()))


@pytest.mark.parametrize("steps", sessions(), ids=lambda steps: "-".join(argv[0] for argv, _ in steps))
def test_readme_shell_sessions_under_every_hash_seed(steps, under_hash_seeds):
    shown = [(0, "".join(f"{line}\n" for line in lines), "") for _, lines in steps]
    for seed, got in under_hash_seeds([argv for argv, _ in steps]).items():
        assert got == shown, seed
