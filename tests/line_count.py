"""Line counts of `src/mudra`: raw, and code only, per module and in total.

Run from anywhere::

    python3 tests/line_count.py

A module's raw count is its number of lines.  Its code-only count leaves
out the lines of docstrings (the spans `ast` gives the string that opens a
module, class or function body), and lines that hold only a comment or
nothing (read with `tokenize`).  A simplicity change reports the net of
both counts against its parent.  pytest does not collect this file (its
name does not start with `test_`).  Standard library only.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mudra"

#: Token types that carry no code of their own.
NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(source: str) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(source: str) -> tuple[int, int]:
    """(raw lines, code-only lines) of one module's source."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(source))


def main() -> None:
    rows = [(path.name, *counts(path.read_text())) for path in sorted(SRC.glob("*.py"))]
    rows.append(("total", sum(raw for _, raw, _ in rows), sum(code for _, _, code in rows)))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'raw':>6}  {'code':>6}")
    for name, raw, code in rows:
        print(f"{name:<{width}}  {raw:>6}  {code:>6}")


if __name__ == "__main__":
    main()
