"""Print the statements of src/apwords that no test executes.

Usage: ``python3 tests/tools/uncovered.py [pytest args]`` from the
repository root.  It runs the suite (or the given pytest arguments)
in-process under ``sys.settrace`` and prints ``path:line  statement`` for
each statement no test reached, then their count.  Docstrings and
``nonlocal``, ``global`` and ``try`` lines run no code of their own and are
left out.  Code run only in a child process counts as unexecuted.  The exit
status is pytest's when the run fails or is interrupted (the list would
only reflect the failure), else 1 when a statement is listed, else 0.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "apwords"


def statements(tree):
    """(line, its statement's own lines): the lines outside its nested
    statements, and a decorated statement's decorators."""
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings \
                or isinstance(node, (ast.Nonlocal, ast.Global, ast.Try)):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        own = set(range(first, node.end_lineno + 1))
        for child in ast.walk(node):
            if child is not node and isinstance(child, (ast.stmt, ast.excepthandler)):
                own -= set(range(child.lineno, child.end_lineno + 1))
        yield node.lineno, own or {node.lineno}


def main(args):
    hit, src = set(), str(SRC)

    def line(frame, event, arg):
        hit.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        # line events only for frames in src/apwords: the rest runs untraced
        return line(frame, event, arg) if frame.f_code.co_filename.startswith(src) else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              *(args or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    listed = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text().splitlines()
        for lineno, own in sorted(statements(ast.parse("\n".join(text))),
                                  key=lambda item: item[0]):
            if not any((str(path), n) in hit for n in own):
                print(f"{path.relative_to(ROOT)}:{lineno}  {text[lineno - 1].strip()}")
                listed += 1
    print(f"{listed} statements unexecuted")
    return int(status) or int(listed > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
