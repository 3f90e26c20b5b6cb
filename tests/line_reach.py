"""Print every executable ``src/portalloc`` line that no test reaches.

Runs pytest in this process under ``sys.settrace`` and ``threading.settrace``
and records each line that executes in a ``src/portalloc`` module. A line is
executable if some code object of its module maps an instruction to it
(``co_lines``); the first instruction of a module or function is reached
when its frame is called. Code that runs in a subprocess is not seen. Not
a test, and the suite does not run it:

    PYTHONPATH=src python tests/line_reach.py [pytest arguments]
"""
import glob
import os
import sys
import threading

import pytest

SRC = os.path.realpath(os.path.join(os.path.dirname(__file__), os.pardir, "src", "portalloc"))
reached: set[tuple[str, int]] = set()


def _trace(frame, event, arg):
    if not frame.f_code.co_filename.startswith(SRC):
        return None
    reached.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace


def executable(path: str) -> set[int]:
    with open(path) as fh:
        todo = [compile(fh.read(), path, "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


if __name__ == "__main__":
    threading.settrace(_trace)
    sys.settrace(_trace)
    pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]])
    sys.settrace(None)
    total = missed = 0
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        lines = executable(path)
        unreached = sorted(lines - {n for f, n in reached if f == path})
        total, missed = total + len(lines), missed + len(unreached)
        for n in unreached:
            print(f"{os.path.basename(path)}:{n}")
    print(f"executable {total}, unreached {missed}")
