"""Count code lines of the Python modules in a directory.

A code line is a non-blank line that holds something other than a comment
and is not part of a docstring (the leading string of a module, class or
function body).  A line with code and a trailing comment counts; every line
of a multi-line string or bracketed expression that is not a docstring
counts.  Prints one line per module, then the total, and the total of all
lines for comparison.

    python3 tools/code_lines.py [directory]     # default: src/lplab
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
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
    """Code lines of one module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/lplab")
    paths = sorted(root.rglob("*.py"))
    if not paths:
        print(f"no Python modules under {root}", file=sys.stderr)
        return 2
    code_total = line_total = 0
    for path in paths:
        source = path.read_text(encoding="utf-8")
        code, total = code_lines(source), len(source.splitlines())
        code_total, line_total = code_total + code, line_total + total
        print(f"{code:6d} {total:6d}  {path.relative_to(root)}")
    print(f"{code_total:6d} {line_total:6d}  total (code lines, all lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
