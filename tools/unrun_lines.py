"""Lines of src/rotubes that the tier-1 suite never runs.

Run from anywhere:  python tools/unrun_lines.py

One tracer, installed with sys.settrace and threading.settrace before anything
imports rotubes, records the "line" events of frames whose file lies under
src/rotubes while pytest.main runs the tier-1 suite with acceptance criterion 9
(the 1e5-point overlap oracle, the slowest test) deselected.  A module's
executable lines are the line numbers that co_lines() gives for its compiled
code object and every nested one; the lines never recorded are printed per
module as ranges, and the exit status is pytest's.  Code that the suite runs
only in subprocesses (the console-script entry) is reported as unrun.  A run
takes about 70 s on a 2-vCPU VM, against 60 s for the untraced suite.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rotubes"
DESELECT = "tests/test_acceptance.py::test_criterion_9_overlap_oracle_agreement"


def executable_lines(path: Path) -> set[int]:
    """Line numbers of every instruction in the module's code and its nested code."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)      # 0: RESUME
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines: list[int]) -> str:
    """'3, 7-9, 12' for [3, 7, 8, 9, 12]."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main() -> int:
    prefix = str(PACKAGE) + os.sep
    seen: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        # Only frames of package code get a local tracer; all others run untraced.
        return local if frame.f_code.co_filename.startswith(prefix) else None

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--deselect", DESELECT])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    for path in sorted(PACKAGE.glob("*.py")):
        ran = {line for name, line in seen if name == str(path)}
        unrun = sorted(executable_lines(path) - ran)
        if unrun:
            print(f"{path.relative_to(ROOT)}: {ranges(unrun)}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
