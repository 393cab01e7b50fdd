"""List the lines of `src/dmrfsim/` that the tier-1 tests never run, and
exit 1 if there is any.

Runs the tier-1 suite in this process through `pytest.main`, with a line
tracer (`sys.settrace`, and `threading.settrace` for threads started later)
that follows only frames whose code lives in `src/dmrfsim/`. A module's
executable lines are the line numbers its code objects map instructions to
(`co_lines()`), less the body of a module's `if __name__ == "__main__":`
guard, which runs only when the module is a script. For each file it
prints how many of them ran and the ones that never did.

Code that runs in another process is not traced: the tests that start
`python -O` in a subprocess, and sweep pool workers. Lines that only those
reach are listed as never run. Tracing makes the suite several times
slower (about 2 minutes on Python 3.11). The listing is a gate: a line
left out is a missing test or dead code, and either way the exit status
is 1.

    python tools/line_cover.py
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dmrfsim"

#: source path -> line numbers run, one set per module of src/dmrfsim
_seen: dict[str, set[int]] = {str(path): set() for path in sorted(SRC.glob("*.py"))}


def _tracer(frame: types.FrameType, event: str, arg: object):
    """Trace a call into src/dmrfsim line by line; ignore any other call."""
    lines = _seen.get(frame.f_code.co_filename)
    if lines is None:
        return None
    add = lines.add
    add(frame.f_lineno)

    def local(frame: types.FrameType, event: str, arg: object):
        add(frame.f_lineno)
        return local

    return local


#: the test of a script's main guard, as `ast.dump` writes it
_MAIN_GUARD = ast.dump(ast.parse('__name__ == "__main__"', mode="eval").body)


def executable_lines(text: str, filename: str = "<module>") -> set[int]:
    """Every line that some code object of the module `text` maps an
    instruction to, except the body of a top-level `if __name__ ==
    "__main__":` guard."""
    todo = [compile(text, filename, "exec")]
    lines: set[int] = set()
    while todo:
        code = todo.pop()
        lines.update(line for _start, _end, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    for node in ast.parse(text).body:
        if isinstance(node, ast.If) and ast.dump(node.test) == _MAIN_GUARD:
            lines.difference_update(range(node.body[0].lineno, node.body[-1].end_lineno + 1))
    return lines


def spans(lines: list[int]) -> str:
    """Sorted line numbers as comma-separated runs: `84, 165-166`."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main() -> int:
    os.chdir(ROOT)
    # the checkout's package, as tier-1 imports it; imported under the tracer
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(_tracer)
    sys.settrace(_tracer)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print()
    if status != 0:
        print(f"pytest exited {int(status)}: the lines below include what failing tests skip")
    print(f"{'src/dmrfsim':<16}{'run':>7}{'of':>7}  never run")
    unrun = 0
    for name, ran in _seen.items():
        path = Path(name)
        lines = executable_lines(path.read_text(encoding="utf-8"), name)
        missed = sorted(lines - ran)
        unrun += len(missed)
        print(f"{path.name:<16}{len(lines) - len(missed):>7}{len(lines):>7}  {spans(missed)}")
    if unrun:
        print(f"src/dmrfsim: {unrun} line(s) never run")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
