"""Which branch sites of src/brat the test suite takes only one way.

Run from the repository root with Python 3.12 or later:

    PYTHONPATH=src python tools/branch_trace.py [pytest arguments]

It runs pytest in this process with a `sys.monitoring` BRANCH callback, then
prints one line for each branch site of src/brat (a conditional jump, loop
test or short-circuit in the bytecode) that ran and always went the same way:
the module, line and column of its condition, the condition's source and the
one outcome it had.  Jumps the compiler adds to an `except` clause's type
match and to a `with` block's exit are left out: an exception type that
always matches, or an `__exit__` that never swallows an exception, is no
missing test.  Sites that never ran are the line trace's business
(tools/line_trace.py).  Tests that run brat in a subprocess take no branch
in this process.  The script only prints: its exit status is 0 whatever the
tests do.
"""

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


def main(argv: list[str]) -> None:
    root, seen = str(ROOT), {}
    events = sys.monitoring.events

    def branch(code, offset, destination):
        if not code.co_filename.startswith(root):
            return sys.monitoring.DISABLE
        went = seen.setdefault((code, offset), set())
        went.add(destination)
        return sys.monitoring.DISABLE if len(went) > 1 else None  # both ways seen: stop watching

    sys.monitoring.use_tool_id(TOOL, "branch_trace")
    sys.monitoring.register_callback(TOOL, events.BRANCH, branch)
    sys.monitoring.set_events(TOOL, events.BRANCH)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.monitoring.set_events(TOOL, events.NO_EVENTS)
        sys.monitoring.register_callback(TOOL, events.BRANCH, None)
        sys.monitoring.free_tool_id(TOOL)
    sites = [(describe(code, offset, min(went)), len(went)) for (code, offset), went in seen.items()]
    one_way = sorted(site for site, ways in sites if site is not None and ways == 1)
    for site in one_way:
        print("%s:%d:%d: `%s` %s" % site)
    both = sum(site is not None and ways == 2 for site, ways in sites)
    print("%d branch sites went one way, %d both ways" % (len(one_way), both))


if __name__ == "__main__":
    main(sys.argv[1:])
