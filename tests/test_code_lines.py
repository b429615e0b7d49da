"""``tools/code_lines.py`` counts code lines, not docstrings, comments or blanks.

The script is loaded from its file, as it is run.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment does not hide code

# a comment line


class Box:
    """Class docstring."""

    side: float = 1.0

    def area(self) -> float:
        """Function
        docstring.
        """
        note = """a string that is
        not a docstring"""
        return self.side**2 + len(note) * math.pi
'''
# import, class, side, def, note (2 lines), return
FIXTURE_CODE_LINES = 7


@pytest.fixture
def code_lines(monkeypatch):
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_counts_only_code(code_lines):
    assert code_lines.code_lines(FIXTURE) == FIXTURE_CODE_LINES


def test_prints_each_file_and_the_total(code_lines, tmp_path, capsys):
    one, two = tmp_path / "one.py", tmp_path / "two.py"
    one.write_text(FIXTURE, encoding="utf-8")
    two.write_text("x = 1\n\n# done\n", encoding="utf-8")
    assert code_lines.main([str(one), str(two)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{FIXTURE_CODE_LINES} {one}",
        f"1 {two}",
        f"{FIXTURE_CODE_LINES + 1} total",
    ]


def test_no_file_is_a_usage_error(code_lines, capsys):
    assert code_lines.main([]) == 2
    assert "usage" in capsys.readouterr().err
