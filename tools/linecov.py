"""Lines of `src/stitsim` that no unit test runs, measured with the standard library only.

    python3 tools/linecov.py [extra pytest arguments]

Runs pytest in this interpreter, without `tests/test_acceptance.py`, under a
`sys.settrace` collector that records every line run in `src/stitsim`, then
prints each line that compiles to code and never ran.  Code run only in a
forked child (`analysis._run_share`) is not seen, so it reads as never run.

Under tracing the collector's frames make cyclic garbage, so the tests that
assert a run makes none fail although they pass without it.  They are
deselected by name, and the script says so.  It exits with pytest's status.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "stitsim"
COLLECTOR_SENSITIVE = [
    "tests/test_config_cli.py::TestCliPausesTheCollector::test_cyclic_garbage_of_a_simulate_does_not_grow_with_time",
    *(
        f"tests/test_engine.py::test_trajectories_make_no_reference_cycles[{case}]"
        for case in ("stit", "vertex-count", "area-point-driven", "region-snapshots-crop")
    ),
]


def code_lines(path: Path) -> set[int]:
    """The line numbers that some code object compiled from path runs."""
    lines = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(args: list[str]) -> int:
    import pytest

    prefix = str(SRC) + os.sep
    run: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            run.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(REPO / "src"))
    for test in COLLECTOR_SENSITIVE:
        print(f"deselected under tracing: {test}")
    deselect = [arg for test in COLLECTOR_SENSITIVE for arg in ("--deselect", test)]
    threading.settrace(start)
    sys.settrace(start)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--ignore=tests/test_acceptance.py", *deselect, *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text().splitlines()
        for line in sorted(code_lines(path) - {n for f, n in run if f == str(path)}):
            print(f"{path.relative_to(REPO)}:{line}: {text[line - 1].strip()}")
            missed += 1
    print(f"{missed} lines never run")
    return int(status)


if __name__ == "__main__":
    os.chdir(REPO)
    sys.exit(main(sys.argv[1:]))
