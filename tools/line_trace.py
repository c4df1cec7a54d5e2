"""Which statements of src/brat the test suite executes.

Run from the repository root:

    PYTHONPATH=src python tools/line_trace.py [pytest arguments]

It runs pytest in this process under a stdlib line tracer, then prints one
line per module of src/brat (its statement count and the statement lines no
test executed) and a total.  A statement is the first line of an `ast`
statement that is not a docstring.  Tests that run brat in a subprocess
execute nothing in this process, so their lines count as missed.  The script
only prints: its exit status is 0 whatever the tests do.
"""

import ast
import pathlib
import sys
import threading

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent / "src" / "brat"


def statements(path: pathlib.Path) -> set[int]:
    nodes = list(ast.walk(ast.parse(path.read_text())))
    docs = {id(node.body[0]) for node in nodes
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and node.body
            and isinstance(node.body[0], ast.Expr) and isinstance(node.body[0].value, ast.Constant)}
    return {node.lineno for node in nodes if isinstance(node, ast.stmt) and id(node) not in docs}


def main(argv: list[str]) -> None:
    root, hit = str(ROOT), set()

    def trace(frame, event, arg):
        if frame.f_code.co_filename.startswith(root):
            hit.add((frame.f_code.co_filename, frame.f_lineno))
            return trace
        return None

    sys.settrace(trace)
    threading.settrace(trace)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = missed = 0
    for path in sorted(ROOT.glob("*.py")):
        lines = statements(path)
        left = sorted(n for n in lines if (str(path), n) not in hit)
        total, missed = total + len(lines), missed + len(left)
        print("%s: %d statements, missed %s" % (path.name, len(lines), left))
    print("executed %d of %d statements" % (total - missed, total))


if __name__ == "__main__":
    main(sys.argv[1:])
