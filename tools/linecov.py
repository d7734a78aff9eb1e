"""List the lines of the iongradim package that a pytest run never executes.

A sys.settrace line tracer, limited to the frames of the modules under
src/iongradim, runs while pytest.main runs the given arguments. Then each
executable line of the package that never ran is printed as
`path:line: source`, followed by a count per module of its executable lines
and of those never run. A line is executable when the compiler maps
bytecode to it (code.co_lines of the module's code objects).

Child processes are not followed: a line that only a subprocess test runs,
such as cli.console_main and the `if __name__ == "__main__"` guard, is
listed as never run. Under the tracer the suite takes about twice as long.

Run from the repository root, with pytest's own arguments:
    python3 tools/linecov.py -q tests/test_cli.py
It uses the standard library and pytest only; its exit code is pytest's.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "iongradim"


def executable_lines(path: Path) -> set[int]:
    """The line numbers the compiled module maps bytecode to, in any of its code objects."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def traced_run(args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """pytest.main(args)'s exit code, and the (file, line) pairs of the package it ran."""
    prefix = str(PACKAGE) + os.sep
    ran = set()

    def line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):   # a new frame: traced line by line only in the package
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(args: list[str]) -> int:
    code, ran = traced_run(args)
    module = sys.modules.get("iongradim")
    if module is not None and Path(module.__file__).resolve().parent != PACKAGE:
        print(f"linecov: the tests imported iongradim from {module.__file__}, not from "
              f"{PACKAGE}", file=sys.stderr)
        return 2
    rows = []
    for path in sorted(PACKAGE.glob("*.py")):
        executable = executable_lines(path)
        missed = sorted(n for n in executable if (str(path), n) not in ran)
        source = path.read_text(encoding="utf-8").splitlines()
        name = path.relative_to(PACKAGE.parent.parent)
        for n in missed:
            print(f"{name}:{n}: {source[n - 1].strip()}")
        rows.append((path.name, len(executable), len(missed)))
    print(f"\n{'module':<20}{'lines':>8}{'not run':>9}")
    for name, executable, missed in rows:
        print(f"{name:<20}{executable:>8,}{missed:>9,}")
    print(f"{'sum':<20}{sum(r[1] for r in rows):>8,}{sum(r[2] for r in rows):>9,}")
    print("child processes are not followed: a line only a subprocess runs is listed as not run")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
