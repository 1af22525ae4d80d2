"""Print each function line of src/liegrowth that a command never runs.

The command is ``-m module [args]`` or ``script [args]``; it runs in this
interpreter under ``sys.settrace``, which traces only the frames of
src/liegrowth. Each function line that never ran goes to stderr as
``file:line: text``, and the exit status is the command's:

    python tools/line_trace.py -m pytest -q
    python tools/line_trace.py -m liegrowth dims --d 2 --max-n 6

A function line is a line that holds an instruction of a function body;
module and class bodies run at import, so they are left out. src/ goes first
on ``sys.path`` and on the ``PYTHONPATH`` of the command's child processes, so
the package traced is the one in this checkout (a child itself is not traced).

Tracing makes a tier-1 run about five times as long (about 90 s on a 2-core
host with Python 3.11), so this is not a CI step. Tier-1 tests that time
themselves can fail under it, and only under it: the time cap of
``test_long_chains_format_hash_and_compare_in_linear_time`` always does, and a
hypothesis test can overrun hypothesis's 200 ms deadline per example.
"""

from __future__ import annotations

import inspect
import os
import runpy
import sys
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "liegrowth"


def function_lines(path: Path) -> set[int]:
    """The lines of `path` that hold an instruction of a function body."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo += (const for const in code.co_consts if isinstance(const, CodeType))
        if code.co_flags & inspect.CO_NEWLOCALS:
            lines.update(line for _, _, line in code.co_lines() if line is not None)
    return lines


def main(argv: list[str]) -> int | str | None:
    if not argv or argv == ["-m"]:
        sys.exit("usage: line_trace.py (-m module | script) [args ...]")
    as_module = argv[0] == "-m"
    target, *args = argv[as_module:]
    prefix = str(PACKAGE)
    ran: set[tuple[str, int]] = set()

    def trace(frame, event, arg):
        # the call event of a frame and every event inside it: a call marks the def line
        if frame.f_code.co_filename.startswith(prefix):
            ran.add((frame.f_code.co_filename, frame.f_lineno))
            return trace
        return None

    sys.argv = [target, *args]
    # as `python -m` and `python script` set it, with src/ in front, here and in the command's children
    sys.path[0:1] = [str(ROOT / "src"), os.getcwd() if as_module else str(Path(target).resolve().parent)]
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    sys.settrace(trace)
    try:
        if as_module:
            runpy.run_module(target, run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(target, run_name="__main__")
        status = None
    except SystemExit as exc:
        status = exc.code  # as sys.exit takes it: None, an int, or a message to print
    finally:
        sys.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        for line in sorted(function_lines(path) - {n for f, n in ran if f == str(path)}):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
