"""Line coverage of ``src/tilerun`` by the test suite, with the stdlib alone.

    python tests/tools/linecov.py [pytest arguments]

Runs pytest in this process (by default over ``tests/``) with a
``sys.settrace`` hook, and a ``threading.settrace`` one for the threaded
engine's workers, that records every line executed in ``src/tilerun``.
Then it prints, per file, the executable lines that no test reached,
with their source.  A line is executable when a code object compiled
from the file maps bytecode to it.  Lines run only in a subprocess (the
demos, the CLI run through ``python -m``) are not seen.

The hook makes the suite about three times slower, so this is a tool to
run by hand, not part of the tier-1 run; pytest does not collect it (its
name does not start with ``test_``).  Exit status is pytest's.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "tilerun"
PREFIX = str(SRC) + "/"

reached: set[tuple[str, int]] = set()


def _local(frame, event, arg):
    if event == "line":
        reached.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    filename = frame.f_code.co_filename
    if not filename.startswith(PREFIX):
        return None
    reached.add((filename, frame.f_lineno))  # the call, for a def with no line event
    return _local


def executable_lines(path: Path) -> set[int]:
    """The lines some code object compiled from ``path`` runs."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for *_, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def report() -> int:
    """Print each file's unreached lines; returns how many there are."""
    missing = 0
    for path in sorted(SRC.glob("*.py")):
        unreached = sorted(executable_lines(path) - {ln for f, ln in reached if f == str(path)})
        missing += len(unreached)
        print(f"{path.relative_to(ROOT)}: {len(unreached)} unreached")
        source = path.read_text().splitlines()
        for ln in unreached:
            print(f"  {ln:5d}  {source[ln - 1].strip()}")
    return missing


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    # installed before pytest imports tilerun, so module bodies are traced too
    threading.settrace(_global)
    sys.settrace(_global)
    try:
        import pytest

        status = pytest.main(argv or [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print(f"{report()} unreached lines in {SRC.relative_to(ROOT)}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
