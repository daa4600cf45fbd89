"""List the executable lines of ``src/finslerconn`` that no tier-1 test runs.

    python3 tools/unrun_lines.py [pytest arguments]

Run from the root of a checkout.  It runs pytest in this process (by
default the tier-1 suite, ``-q --continue-on-collection-errors tests``)
with a ``sys.settrace`` tracer installed before the package is imported,
so module, class and function bodies all count.  A line is executable
when a code object compiled from the file maps an instruction to it.
Then it prints, for each module with unrun lines, their count and
ranges (consecutive executable lines merged), and a ``total`` line.
Only the standard library is used; the run takes a few times as long
as the suite itself.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path.cwd()
PACKAGE = ROOT / "src" / "finslerconn"
DEFAULT_ARGS = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", "tests"]


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that some instruction of its code maps to."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines: list[int], executable: list[int]) -> list[str]:
    """``lines`` as ranges, each run of consecutive executable lines one."""
    position = {line: k for k, line in enumerate(executable)}
    out: list[list[int]] = []
    for line in lines:
        if out and position[line] == position[out[-1][1]] + 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return [str(a) if a == b else f"{a}-{b}" for a, b in out]


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or DEFAULT_ARGS)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        executable = sorted(executable_lines(path))
        unrun = [line for line in executable if line not in ran.get(str(path), ())]
        if unrun:
            total += len(unrun)
            print(f"{path.relative_to(ROOT)}: {len(unrun)}: {', '.join(ranges(unrun, executable))}")
    print(f"total {total}")
    return int(status)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
