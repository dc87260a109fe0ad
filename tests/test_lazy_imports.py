"""Which scipy and process-pool modules each entry point loads, each checked in a fresh interpreter.

Importing scipy costs time and memory, so only the functions that compute
with scipy import it, and only the subpackage they use: the consistency tests
load scipy.special (the KS p-value is `stitsim.kstwo`'s port of
`scipy.stats.kstwo.sf`, so scipy.stats, about 45 MB and half a second, is
never loaded), the isotropic joint hitting mass loads scipy.integrate, and
`import stitsim`, `simulate` and `rate` load neither.  No entry point loads a
process pool: a consistency run on more than one process forks its children
with `os.fork`, without multiprocessing or concurrent.futures.
"""

import json
import os
import subprocess
import sys

import pytest

from test_config_cli import CONSISTENCY, RATE, SIMULATE, VERIFY, write_config

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

_REPORT_MODULES = """
import json, sys
print(json.dumps(sorted(sys.modules)))
"""

POOL_MODULES = {"concurrent.futures", "multiprocessing"}


def modules_after(code: str) -> set[str]:
    """The modules loaded once `code` has run in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", code + _REPORT_MODULES], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def scipy_modules(loaded: set[str]) -> set[str]:
    return {m for m in loaded if m == "scipy" or m.startswith("scipy.")}


@pytest.mark.parametrize("module", ["stitsim", "stitsim.cli"])
def test_import_loads_no_scipy(module):
    loaded = modules_after(f"import {module}")
    assert scipy_modules(loaded) == set()
    assert POOL_MODULES.isdisjoint(loaded)


@pytest.mark.parametrize("command, config", [("simulate", SIMULATE), ("rate", RATE)], ids=["simulate", "rate"])
def test_simulate_and_rate_load_no_scipy(tmp_path, command, config):
    cfg = write_config(tmp_path, config)
    run = f"from stitsim.cli import main\nassert main([{command!r}, '--config', {cfg!r}, '--out', {str(tmp_path)!r}]) == 0"
    loaded = modules_after(run)
    assert scipy_modules(loaded) == set()
    assert POOL_MODULES.isdisjoint(loaded)


def test_pooled_consistency_loads_no_pool(tmp_path):
    cfg = write_config(tmp_path, CONSISTENCY)
    loaded = modules_after(
        "from stitsim.cli import main\n"
        f"assert main(['consistency', '--config', {cfg!r}, '--threads', '2', '--out', {str(tmp_path)!r}]) in (0, 2)"
    )
    # numpy 2's numpy.testing, which scipy.special imports, loads the concurrent.futures package but no executor
    assert "scipy.stats" not in loaded
    assert "multiprocessing" not in loaded
    assert not {m for m in loaded if m.startswith("concurrent.futures.")} - {"concurrent.futures._base"}


def test_verify_loads_integrate_but_not_stats(tmp_path):
    # the corollary integrates the isotropic joint hitting mass with scipy's quad
    cfg = write_config(tmp_path, {**VERIFY, "n_cases": 5})
    loaded = modules_after(
        f"from stitsim.cli import main\nassert main(['verify', '--config', {cfg!r}, '--out', {str(tmp_path)!r}]) == 0"
    )
    assert "scipy.integrate" in loaded
    assert "scipy.stats" not in loaded


# sha256 of ConsistencyReport.to_text() for STIT, V = [0,1]^2, W = [0,2]^2,
# times 0.5 and 1, 100 replicates, seed 1; the text rounds every float, so
# the last bits of scipy's p-values cannot move it.
CONSISTENCY_TEXT_DIGEST = "a16b9d61f16e9cee383512fe99eca85abd88a727cf1763916101687815d48d93"


def test_consistency_loads_no_stats_and_keeps_its_report():
    loaded = modules_after(f"""
import hashlib, sys
from stitsim import HyperplaneMeasure, rectangle, stit_pair
from stitsim.analysis import consistency_test
assert "scipy.stats" not in sys.modules
report = consistency_test(
    stit_pair(HyperplaneMeasure(1.0)), rectangle(0, 0, 1, 1), rectangle(0, 0, 2, 2), [0.5, 1.0], 100, seed=1, n_jobs=1
)
assert hashlib.sha256(report.to_text().encode()).hexdigest() == {CONSISTENCY_TEXT_DIGEST!r}, report.to_text()
""")
    assert "scipy.stats" not in loaded
