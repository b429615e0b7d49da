"""Code lines of Python files: docstrings, comments and blank lines excluded.

Run from the repository root::

    python3 tools/code_lines.py src/eigsurgery/pde.py src/eigsurgery/surgery.py

It prints one ``<lines> <path>`` line per file and, for more than one file,
a ``<lines> total`` line.  A line counts if it holds any token other than a
comment, that is, any part of a statement.  A docstring is the string
literal that opens a module, class or function body; its lines do not
count.  Other string literals count on every line they span.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Sequence

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by the docstrings of the module, classes and functions."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of ``source`` that hold code, outside its docstrings."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: Sequence[str]) -> int:
    if not argv:
        print("usage: code_lines.py FILE...", file=sys.stderr)
        return 2
    total = 0
    for path in argv:
        count = code_lines(Path(path).read_text(encoding="utf-8"))
        total += count
        print(f"{count} {path}")
    if len(argv) > 1:
        print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
