"""One workload in one fresh interpreter.

Started by run.py.  It prints `ready` once the inputs are built (run.py
times interpreter start to that line as set-up), then, unless --setup-only,
runs the workload and prints one JSON line with its results.

On a shared 2-vCPU Xeon host, a fixed piece of pure-Python work ran 1.0x to
1.7x its fastest time from one minute to the next, and CPU time moved with
wall time.  So throughput is scaled by the slowdown of a fixed reference
kernel, timed in the same process between the main calls: reps_per_s is
reported at reference speed.  The unscaled value is kept in the manifest.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import resource
import sys
from time import perf_counter

MIN_CALLS = 3  # main calls per run, however long they take
# Reference kernel time on an uncontended 2-vCPU Xeon, CPython 3.11.7.  Any
# constant would do: it only fixes the scale of the reported figures.
REFERENCE_S = 0.010
# After each main call the kernel runs for about this share of the call's
# time, so the slowdown is sampled as densely as the calls are timed.
REFERENCE_SHARE = 0.1

_PTS = [(math.cos(0.7 * k) * (1 + 0.3 * math.sin(k)), math.sin(0.7 * k) * (1 + 0.3 * math.cos(k))) for k in range(12)]


def reference_kernel() -> float:
    """Fixed pure-Python float and list work, independent of stitsim."""
    acc = 0.0
    for j in range(4000):
        theta = (0.618 * j) % math.pi
        ux, uy = math.cos(theta), math.sin(theta)
        side = [x * ux + y * uy for x, y in _PTS]
        lo, hi = min(side), max(side)
        acc += math.hypot(hi - lo, lo)
    return acc


def reference_times(call_s: float) -> list[float]:
    times = []
    for _ in range(max(3, round(REFERENCE_SHARE * call_s / REFERENCE_S))):
        t0 = perf_counter()
        reference_kernel()
        times.append(perf_counter() - t0)
    return times


def _run_call(wl, i, n_jobs, wrap=None) -> tuple[float, list[str]]:
    """Time main call i, then check its output; returns (seconds, failures)."""
    from stitsim import StitsimError

    t0 = perf_counter()
    try:
        out = wrap(wl.call, i, n_jobs) if wrap else wl.call(i, n_jobs)
    except StitsimError as exc:
        return perf_counter() - t0, [f"call {i}: {type(exc).__name__}: {exc}"]
    elapsed = perf_counter() - t0
    return elapsed, [f"call {i}: {msg}" for msg in wl.check(out)]


def _summary(ops: list[list[str]]) -> dict:
    """Result counts: one operation per main call or side check."""
    failed = sum(1 for fails in ops if fails)
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed}


def _side_ops(wl) -> list[list[str]]:
    return [[f"{name}: {msg}" for msg in fails] for name, fails in wl.side_checks().items()]


def measure(wl, seconds: float) -> dict:
    """Untraced run: main calls until `seconds` have passed, then the side checks."""
    min_calls = max(MIN_CALLS, wl.min_calls)
    per_call, ops, ref = [], [], []
    start = perf_counter()
    while len(per_call) < min_calls or perf_counter() - start < seconds:
        elapsed, fails = _run_call(wl, len(per_call), None)
        per_call.append(elapsed)
        ops.append(fails)
        ref += reference_times(elapsed)
    ops += _side_ops(wl)
    usage = [resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    # throughput over the whole run: steadier than a per-call median when
    # calls differ in size (simulate_large cycles through seeds)
    raw = wl.done(len(per_call)) / sum(per_call)
    slowdown = sum(ref) / len(ref) / REFERENCE_S
    result = _summary(ops)
    result["metrics"] = {
        "reps_per_s": raw * slowdown,
        "peak_rss_mb": max(usage) / 1024.0,  # ru_maxrss is in KiB on Linux
    }
    result["info"] = {
        "raw_reps_per_s": raw,
        "slowdown": slowdown,
        "work_done": wl.done(len(per_call)),
        "call_s": per_call,
    }
    if hasattr(wl, "digests"):  # simulate_large
        result["info"]["dump_sha256"] = wl.digests
    result["info"]["failures"] = [f for fails in ops for f in fails]
    return result


def trace(wl, seconds: float, spans_path: str) -> dict:
    """Traced run on n_jobs = 1: the same calls untraced, then traced.

    The call count is fixed by --seconds and the workload's nominal call time,
    so a seed gives the same work, and the same counts, on every commit.
    """
    from tracing import Tracer

    calls = range(max(1, int(seconds / (2 * wl.nominal_call_s))))
    ops = []

    def run(n_jobs, wrap=None) -> float:
        total = 0.0
        for i in calls:
            elapsed, fails = _run_call(wl, i, n_jobs, wrap)
            total += elapsed
            ops.append(fails)
        return total

    untraced = run(1)
    efficiency = 0.0  # reported as 0 where the workload does not use the pool
    if wl.threads > 1:  # pointdriven_t3
        efficiency = untraced / (wl.threads * run(wl.threads))
    tracer = Tracer(wl.arm_of)
    tracer.install()
    try:
        traced = run(1, tracer.call)
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)
    ops += _side_ops(wl)
    result = _summary(ops)
    result["metrics"] = tracer.layer_metrics(untraced, traced, efficiency)
    result["info"] = {
        "calls": len(calls),
        "untraced_s": untraced,
        "traced_s": traced,
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.dropped,
        "failures": [f for fails in ops for f in fails],
    }
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scratch", required=True)
    p.add_argument("--spans", default=None)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import numpy
    import scipy

    import stitsim
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    wl.setup(args.seed, args.scratch)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result = trace(wl, args.seconds, args.spans) if args.trace else measure(wl, args.seconds)
    result["info"]["versions"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "stitsim": stitsim.__version__,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
