"""Mutation self-test of the unit suite.

Each mutant replaces one exact piece of text in a file of `src/stitsim` and
names the tests that must fail on it.  The script applies each mutant to a
temporary copy of `src/`, never to the tree, and runs only the named tests
against that copy.  A named test id may be a test, a parametrized test or a
class; it counts as failed when one of the tests it names fails.

    python3 tools/mutants.py

It first runs every named test on an unmutated copy, which must pass.  It
exits 1 if one of them fails there, if a mutant's old text is not found
exactly once, if a mutant survives (a named test passes), or if a listed
survivor is killed (then it belongs in MUTANTS).  The script lives outside
pytest's collection (`testpaths = ["tests"]`).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
RATE = "tests/test_analysis.py::TestRateEstimate"
BATCHED = "tests/test_analysis.py::TestBatchedTestsMatchScipy"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/stitsim
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # every one must fail on the mutant


MUTANTS = [
    # rate_estimate on the chunk collector
    Mutant(
        "rate on stream 0",
        "analysis.py",
        "(2, start, min(RATE_CHUNK, n_reps - start))",
        "(0, start, min(RATE_CHUNK, n_reps - start))",
        (f"{RATE}::test_estimate_is_pinned", f"{RATE}::test_equals_its_own_loop"),
    ),
    Mutant(
        "probe columns not made 0/1",
        "analysis.py",
        "table[:, :, 3:] = table[:, :, 3:] > 0",
        "table[:, :, 3:] = table[:, :, 3:]",
        (f"{RATE}::test_counts_replicates_not_chords", f"{RATE}::test_equals_its_own_loop[stit-V]"),
    ),
    Mutant(
        "rate ignores aborts",
        "analysis.py",
        "    if aborted:\n        raise ReplicateAborted(f\"{aborted} of {n_reps} replicates aborted\")\n",
        "",
        (f"{RATE}::test_any_aborted_replicate_raises",),
    ),
    # the batched KS and chi-square kernels
    Mutant(
        "chi-square terms summed in reverse",
        "analysis.py",
        ".reshape(-1, 4).sum(axis=1)",
        ".reshape(-1, 4)[:, ::-1].sum(axis=1)",
        (f"{BATCHED}::test_chi2_every_small_table", f"{BATCHED}::test_chi2_random_tables"),
    ),
    Mutant(
        "no Yates cap",
        "analysis.py",
        "np.minimum(0.5, np.abs(gap))",
        "0.5",
        (f"{BATCHED}::test_chi2_every_small_table",),
    ),
    Mutant(
        "effective size not rounded",
        "analysis.py",
        "np.round(m * n / (m + n))",
        "m * n / (m + n)",
        (f"{BATCHED}::test_ks_columns_equal_ks_2samp[137-61]", f"{BATCHED}::test_ks_one_dimensional_pair_gives_floats"),
    ),
    Mutant(
        'searchsorted side="left"',
        "analysis.py",
        'np.searchsorted(x, pooled, side="right")',
        'np.searchsorted(x, pooled, side="left")',
        (f"{BATCHED}::test_ks_columns_equal_ks_2samp", "tests/test_analysis.py::TestKSTwoSample::test_identical_samples"),
    ),
]

# Mutants that no test can kill, with the reason.  They are run too, and must survive.
SURVIVORS = [
    (
        Mutant(
            "every stream but 0 built in W",
            "analysis.py",
            "if arm == 1 else (V, None)",
            "if arm else (V, None)",
            (RATE, "tests/test_analysis.py::TestChunkKernel"),
        ),
        "only rate_estimate uses stream 2, and it passes W = V: a region V in V leaves no cell out, so the draws are equal",
    ),
]


def run_tests(src: Path, tests: tuple[str, ...]) -> tuple[bool, set[str]]:
    """Runs the tests against the stitsim in `src`; returns (all passed, the failed test ids)."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    where = subprocess.run(
        [sys.executable, "-c", "import stitsim; print(stitsim.__file__)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(where).is_relative_to(src):
        sys.exit(f"stitsim imports from {where}, not from the copy in {src}")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rf", *tests],
        cwd=REPO, env=env, capture_output=True, text=True,
    )
    failed = {line.split()[1] for line in done.stdout.splitlines() if line.startswith("FAILED ")}
    if done.returncode not in (0, 1):
        sys.exit(f"pytest exited {done.returncode} on {' '.join(tests)}:\n{done.stdout}{done.stderr}")
    return done.returncode == 0, failed


def killed_by(test: str, failed: set[str]) -> bool:
    return any(f == test or f.startswith((test + "::", test + "[")) for f in failed)


def main() -> int:
    table = [(m, None) for m in MUTANTS] + SURVIVORS
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        every_test = tuple(dict.fromkeys(t for m, _ in table for t in m.tests))
        passed, failed = run_tests(src, every_test)
        if not passed:
            print(f"unmutated copy fails: {sorted(failed)}")
            return 1
        for m, why in table:
            path = src / "stitsim" / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"{m.name}: old text found {text.count(m.old)} times in {m.file}, not once")
                bad += 1
                continue
            path.write_text(text.replace(m.old, m.new))
            try:
                _, failed = run_tests(src, m.tests)
            finally:
                path.write_text(text)
            survived_by = [t for t in m.tests if not killed_by(t, failed)]
            if why is None:
                bad += bool(survived_by)
                print(f"{m.name}: " + (f"SURVIVES {survived_by}" if survived_by else f"killed ({len(failed)} failed)"))
            else:
                bad += bool(failed)
                print(f"{m.name}: " + (f"KILLED {sorted(failed)}; move it to MUTANTS" if failed else "survives, as listed: " + why))
    print("ok" if not bad else f"{bad} of {len(table)} mutants not as listed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
