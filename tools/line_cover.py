"""List the lines of `src/dmrfsim/` that the tier-1 tests never run.

Runs the tier-1 suite in this process through `pytest.main`, with a line
tracer (`sys.settrace`, and `threading.settrace` for threads started later)
that follows only frames whose code lives in `src/dmrfsim/`. A module's
executable lines are the line numbers its code objects map instructions to
(`co_lines()`); for each file it prints how many of them ran and the ones
that never did.

Code that runs in another process is not traced: the tests that start
`python -O` in a subprocess, and sweep pool workers. Lines that only those
reach are listed as never run. Tracing makes the suite several times
slower (about 2 minutes on Python 3.11). The listing is a report, not a
gate: a line left out may be a missing test or dead code.

    python tools/line_cover.py
"""

from __future__ import annotations

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


def executable_lines(path: Path) -> set[int]:
    """Every line that some code object of the module maps an instruction to."""
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines: set[int] = set()
    while todo:
        code = todo.pop()
        lines.update(line for _start, _end, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
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


def main() -> None:
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
    for name, ran in _seen.items():
        path = Path(name)
        lines = executable_lines(path)
        missed = sorted(lines - ran)
        print(f"{path.name:<16}{len(lines) - len(missed):>7}{len(lines):>7}  {spans(missed)}")


if __name__ == "__main__":
    main()
