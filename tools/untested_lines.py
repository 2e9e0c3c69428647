"""List the statements of src/lplab that no test executes.

Runs pytest in this process with a line tracer (sys.settrace, and
threading.settrace for the threads the package starts) limited to the
modules under src/lplab, then prints each statement whose lines never ran,
one per line as path:line and its first source line, and a count.  A
compound statement (if, for, with, try, def, ...) counts as run when its own
header ran or any statement inside it did.  Docstrings are not statements.
Uses the standard library only; tracing roughly doubles the suite's time.

    python3 tools/untested_lines.py [pytest arguments]    # default: -q tests

Exits with pytest's exit code.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lplab"


def _statements(tree: ast.AST):
    """(statement, lines it owns) for every statement: its span less its nested bodies."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(
            node.value.value, str
        ):
            continue  # a docstring, or a bare string, compiles to nothing
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        own = set(range(start, node.end_lineno + 1))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.stmt, ast.excepthandler)):
                own -= set(range(child.lineno, child.end_lineno + 1))
        yield node, own


def _nested(node: ast.stmt):
    """Statements directly or indirectly inside node."""
    return [n for n in ast.walk(node) if n is not node and isinstance(n, ast.stmt)]


def untested(executed: dict[str, set[int]]) -> list[tuple[str, int, str]]:
    """(path relative to the root, line, source line) of every statement that never ran."""
    out = []
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        ran = executed.get(str(path), set())
        owned = dict(_statements(ast.parse(source)))
        for node, own in owned.items():
            if own & ran or any(owned.get(n, set()) & ran for n in _nested(node)):
                continue
            out.append((str(path.relative_to(ROOT)), node.lineno, lines[node.lineno - 1].strip()))
    return sorted(out)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    prefix = str(PACKAGE) + "/"
    executed: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        executed.setdefault(filename, set()).add(frame.f_lineno)
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(argv or ["-q", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = untested(executed)
    for path, line, text in missed:
        print(f"{path}:{line}: {text}")
    print(f"{len(missed)} statements of {PACKAGE.relative_to(ROOT)} never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
