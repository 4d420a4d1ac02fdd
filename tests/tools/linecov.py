"""Line coverage of ``src/tilerun`` by the test suite, with the stdlib alone.

    python tests/tools/linecov.py [pytest arguments]

Runs pytest in this process (by default over ``tests/``) with a
``sys.settrace`` hook, and a ``threading.settrace`` one for the threaded
engine's workers, that records every line executed in ``src/tilerun``.
Then it prints, per file, the executable lines that no test reached,
with their source.  A line is executable when a code object compiled
from the file maps bytecode to it.  Each file is read once, before the
traced run imports it, and the report compiles and prints that snapshot,
so a file edited while the tests run is reported as the tests ran it.
Lines run only in a subprocess (the demos, the CLI run through ``python
-m``) are not seen.

The traced run deselects the tests marked ``wallclock``, whose wall-clock
budgets the hook's slowdown would break; a second pytest run, in a
subprocess and untraced, runs those tests alone over the same
arguments.  The tool adds ``-m`` to each run, so the arguments should
not.  Lines only a ``wallclock`` test reaches count as unreached.

``UNREACHABLE`` lists the lines argued unreachable from an in-process
test, by file and source text, each with its reason.  They are reported
but allowed; an entry that matches no unreached line is reported as
stale.

The hook makes the suite about three times slower, so this is a tool to
run by hand, not part of the tier-1 run; pytest does not collect it (its
name does not start with ``test_``).  Exit status is the traced run's
pytest status when that is not 0, else the untraced run's when that is
not 0 (a selection with no ``wallclock`` test in it counts as 0), else 1
when an unreached line is not in ``UNREACHABLE`` or an entry there is
stale, else 0.
"""

from __future__ import annotations

import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "tilerun"
PREFIX = str(SRC) + "/"

# (file, stripped source line) -> why no in-process test can run it
UNREACHABLE = {
    ("cli.py", "sys.exit(main())"): "runs only as `python -m tilerun.cli`, in a subprocess",
}

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


def snapshot() -> dict[Path, str]:
    """The source of each file in ``src/tilerun``, as it reads now."""
    return {path: path.read_text() for path in sorted(SRC.glob("*.py"))}


def executable_lines(path: Path, source: str) -> set[int]:
    """The lines some code object compiled from ``source``, read from
    ``path``, runs."""
    lines, todo = set(), [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for *_, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def report(sources: dict[Path, str]) -> int:
    """Print each file's unreached lines, by the ``sources`` the run
    started from; returns how many are not in ``UNREACHABLE``, plus its
    stale entries."""
    missing, used = 0, set()
    for path, text in sources.items():
        unreached = sorted(executable_lines(path, text)
                           - {ln for f, ln in reached if f == str(path)})
        print(f"{path.relative_to(ROOT)}: {len(unreached)} unreached")
        source = text.splitlines()
        for ln in unreached:
            key = (path.name, source[ln - 1].strip())
            reason = UNREACHABLE.get(key)
            if reason is None:
                missing += 1
            used.add(key)
            print(f"  {ln:5d}  {key[1]}" + (f"  [allowed: {reason}]" if reason else ""))
    for name, line in sorted(UNREACHABLE.keys() - used):
        missing += 1
        print(f"stale UNREACHABLE entry, reached or gone: {name}: {line}")
    return missing


def main(argv: list[str]) -> int:
    args = argv or [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"]
    sys.path.insert(0, str(ROOT / "src"))
    sources = snapshot()  # before tilerun is imported, which compiles the same text
    # installed before pytest imports tilerun, so module bodies are traced too
    threading.settrace(_global)
    sys.settrace(_global)
    try:
        import pytest

        status = pytest.main([*args, "-m", "not wallclock"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print("running the wallclock tests untraced")
    timed = subprocess.run([sys.executable, "-m", "pytest", *args, "-m", "wallclock"],
                           cwd=ROOT).returncode
    missing = report(sources)
    print(f"{missing} unreached lines in {SRC.relative_to(ROOT)} not argued unreachable")
    return (int(status) or (0 if timed == pytest.ExitCode.NO_TESTS_COLLECTED else timed)
            or int(missing > 0))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
