"""Which statements of src/brat the test suite runs, and which branch sites it
takes only one way.

Run from the repository root with Python 3.12 or later:

    PYTHONPATH=src python tools/trace.py [pytest arguments]

It runs pytest in this process with `sys.monitoring` LINE and BRANCH
callbacks, then prints:
- each statement of src/brat that no test executed in process.  A statement
  is the first line of an `ast` statement that is not a docstring.
- the count of statements executed.
- each branch site of src/brat (a conditional jump, loop test or
  short-circuit in the bytecode) that ran and always went the same way: the
  module, line and column of its condition, the condition's source and the
  one outcome it had.  Jumps the compiler adds to an `except` clause's type
  match and to a `with` block's exit are left out: an exception type that
  always matches, or an `__exit__` that never swallows an exception, is no
  missing test.
- the counts of branch sites that went one way and both ways.

Tests that run brat in a subprocess execute nothing in this process, so
each statement needs a test that runs it in process.  The exit status is 1
when pytest fails or a statement was missed, else 0.  Branch sites only
print.
"""

import ast
import dis
import linecache
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent / "src" / "brat"
TOOL = sys.monitoring.COVERAGE_ID
IMPLICIT = {"CHECK_EXC_MATCH", "CHECK_EG_MATCH", "WITH_EXCEPT_START"}  # the jump after one of these
# the outcome of a site that always jumped, and of one that never did
OUTCOMES = {"POP_JUMP_IF_TRUE": ("always true", "always false"),
            "POP_JUMP_IF_FALSE": ("always false", "always true"),
            "POP_JUMP_IF_NONE": ("always None", "never None"),
            "POP_JUMP_IF_NOT_NONE": ("never None", "always None"),
            "FOR_ITER": ("never iterates", "never runs out")}


def statements(path: pathlib.Path) -> set[int]:
    nodes = list(ast.walk(ast.parse(path.read_text())))
    docs = {id(node.body[0]) for node in nodes
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and node.body
            and isinstance(node.body[0], ast.Expr) and isinstance(node.body[0].value, ast.Constant)}
    return {node.lineno for node in nodes if isinstance(node, ast.stmt) and id(node) not in docs}


def describe(code, offset: int, destination: int) -> tuple:
    """(module, line, column, source, outcome) of the site at `offset`, or
    None for a jump the compiler adds after an exception match or a `with` exit."""
    instructions = [i for i in dis.get_instructions(code) if i.opname != "TO_BOOL"]
    n = next(n for n, i in enumerate(instructions) if i.offset == offset)
    if n and instructions[n - 1].opname in IMPLICIT:
        return None
    site, jumped = instructions[n], destination != instructions[n + 1].offset
    line, column, end = site.positions.lineno, site.positions.col_offset, site.positions.end_col_offset
    text = linecache.getline(code.co_filename, line)
    source = text[column:end if site.positions.end_lineno == line else None].strip()
    outcome = OUTCOMES.get(site.opname, ("always jumped", "never jumped"))[0 if jumped else 1]
    return pathlib.Path(code.co_filename).name, line, column, source, outcome


def main(argv: list[str]) -> int:
    root, ran, seen = str(ROOT), set(), {}
    events = sys.monitoring.events

    def line(code, number):
        if code.co_filename.startswith(root):
            ran.add((code.co_filename, number))
        return sys.monitoring.DISABLE  # one hit is enough

    def branch(code, offset, destination):
        if not code.co_filename.startswith(root):
            return sys.monitoring.DISABLE
        went = seen.setdefault((code, offset), set())
        went.add(destination)
        return sys.monitoring.DISABLE if len(went) > 1 else None  # both ways seen: stop watching

    sys.monitoring.use_tool_id(TOOL, "trace")
    sys.monitoring.register_callback(TOOL, events.LINE, line)
    sys.monitoring.register_callback(TOOL, events.BRANCH, branch)
    sys.monitoring.set_events(TOOL, events.LINE | events.BRANCH)
    try:
        failed = pytest.main(["-q", "-p", "no:cacheprovider", *argv]) != 0
    finally:
        sys.monitoring.set_events(TOOL, events.NO_EVENTS)
        sys.monitoring.register_callback(TOOL, events.LINE, None)
        sys.monitoring.register_callback(TOOL, events.BRANCH, None)
        sys.monitoring.free_tool_id(TOOL)
    total, missed = 0, []
    for path in sorted(ROOT.glob("*.py")):
        lines = statements(path)
        total += len(lines)
        missed += [(path.name, n, linecache.getline(str(path), n).strip())
                   for n in sorted(lines) if (str(path), n) not in ran]
    for module, n, source in missed:
        print("%s:%d: `%s` runs in no test in process" % (module, n, source))
    print("executed %d of %d statements" % (total - len(missed), total))
    sites = [(describe(code, offset, min(went)), len(went)) for (code, offset), went in seen.items()]
    one_way = sorted(site for site, ways in sites if site is not None and ways == 1)
    for site in one_way:
        print("%s:%d:%d: `%s` %s" % site)
    both = sum(site is not None and ways == 2 for site, ways in sites)
    print("%d branch sites went one way, %d both ways" % (len(one_way), both))
    return int(failed or bool(missed))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
