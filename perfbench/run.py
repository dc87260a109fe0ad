"""stitsim benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload stit_small_t --seed 1 --seconds 10 --trace 0

Run from the repository root.  The package is imported from `src/`, so there
is nothing to build.  With --trace 0 the run reports the end-to-end metrics
of BENCHMARK.json: the workload runs untraced in a fresh interpreter, and
set-up time is the median, over that interpreter and SETUP_SAMPLES more that
stop once ready, of the time from interpreter start to inputs ready.  With
--trace 1 it reports the per-layer metrics from a traced run.  Each metric is
printed by name and unit; the last stdout line is the JSON result.  Manifest,
full result and spans go to .bench_build/perfbench/; outputs of the program
go to a temporary directory there that is removed at the end.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import tempfile
from pathlib import Path
from time import perf_counter, time

SCHEMA_VERSION = 1
SETUP_SAMPLES = 4  # setup-only interpreters; the measuring one gives one more sample
RUN_TIMEOUT_S = 170.0

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def _git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "stitsim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def manifest(args) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "started_unix": time(),
    }


class Worker:
    """A worker.py interpreter in its own session, so it and its pool can be killed together."""

    def __init__(self, argv: list[str], env: dict, deadline: float):
        self.deadline = deadline
        self.t0 = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")] + argv,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )

    def wait_ready(self) -> float:
        """Seconds from interpreter start to the worker's `ready` line."""
        line = self.proc.stdout.readline()
        if line.strip() != "ready":
            raise RuntimeError(f"worker did not get ready (said {line!r})")
        return perf_counter() - self.t0

    def finish(self) -> str:
        try:
            out, _ = self.proc.communicate(timeout=max(1.0, self.deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("worker timed out")
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        return out

    def kill(self):
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()


def run(args, spec: dict, out_dir: Path) -> dict:
    deadline = perf_counter() + RUN_TIMEOUT_S
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    (scratch / "tmp").mkdir()
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
        PYTHONDONTWRITEBYTECODE="1",
        TMPDIR=str(scratch / "tmp"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
    )
    argv = [
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        f"--scratch={scratch}",
        # spans of the latest traced run of each workload; one file per seed would pile up
        f"--spans={out_dir / (args.workload + '-spans.jsonl')}",
    ]
    workers = []
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                w = Worker(argv + ["--setup-only"], env, deadline)
                workers.append(w)
                setup.append(w.wait_ready())
                w.finish()
        w = Worker(argv, env, deadline)
        workers.append(w)
        setup.append(w.wait_ready())
        result = json.loads(w.finish().strip().splitlines()[-1])
    finally:
        for w in workers:
            w.kill()
        shutil.rmtree(scratch, ignore_errors=True)
    if not args.trace:
        # Unscaled: on a contended host set-up time moved far less than the
        # reference kernel did, so scaling it (as reps_per_s) made it noisier.
        result["metrics"]["setup_s"] = statistics.median(setup)
        result["info"]["setup_s"] = setup

    declared = spec["per_layer" if args.trace else "end_to_end"]
    mismatch = {m["name"] for m in declared} ^ set(result["metrics"])
    if mismatch:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(mismatch)}")
    result["metrics"] = {
        m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in declared
    }
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # a terminated run still kills its workers (the finally in run())
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    if not (ROOT / "src" / "stitsim" / "__init__.py").is_file():
        return _fail(f"no stitsim sources under {ROOT / 'src'}; run from a repository checkout")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")

    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    info = manifest(args)
    try:
        result = run(args, spec, out_dir)
    except (RuntimeError, ValueError, OSError) as exc:
        return _fail(str(exc))
    info.update(result.pop("info"))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out_dir / f"{tag}.json", "w") as fh:
        json.dump({"manifest": info, "result": result}, fh, indent=1)

    print(json.dumps({"manifest": info}))
    for name, m in result["metrics"].items():
        print(f"{args.workload:<16} {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"{args.workload:<16} correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
