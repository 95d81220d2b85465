"""List the statements of src/oddsym that a pytest run never executes.

    PYTHONPATH=src python tools/coverage_log.py [pytest arguments]

Traces only the frames whose code lives under src/oddsym, takes each
module's statement lines from its syntax tree (docstrings and the nonlocal
and global declarations emit no line event and are left out), and prints
path:line for every statement that no traced frame reached, then the count.
The exit code is pytest's.  Standard library and pytest only; the run takes
several times as long as plain pytest.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = str(ROOT / "src" / "oddsym")
ran: dict[str, set[int]] = {}


def _trace(frame, event, arg):
    if not frame.f_code.co_filename.startswith(PACKAGE):
        return None
    lines = ran.setdefault(frame.f_code.co_filename, set())

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def statement_lines(tree) -> set[int]:
    """The lines of the statements that emit a line event when they run:
    docstrings and the declarations nonlocal and global emit none."""
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and id(node) not in docstrings
            and not isinstance(node, (ast.Nonlocal, ast.Global))}


def main(args) -> int:
    sys.settrace(_trace)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    missed = 0
    for path in sorted(Path(PACKAGE).glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for line in sorted(statement_lines(tree) - ran.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}")
            missed += 1
    print(f"{missed} statements of src/oddsym never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
