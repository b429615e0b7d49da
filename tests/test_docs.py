"""Docs guard: every ``eigsurgery`` command in the README parses."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from eigsurgery.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[str]:
    """The ``eigsurgery`` command lines of the README's ``sh`` blocks."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
    lines = re.sub(r"\s*\\\n\s*", " ", "\n".join(blocks)).splitlines()
    return [line.strip() for line in lines if line.strip().startswith("eigsurgery ")]


def test_readme_lists_the_commands():
    # an extractor that found nothing would parametrize no test below
    assert len(readme_commands()) == 10


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_parses(command):
    argv = shlex.split(command, comments=True)[1:]
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"the README command does not parse: {command}")
